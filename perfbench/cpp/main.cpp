// cmebench: the benchmark-of-record harness. perfbench/run.py builds this
// binary and invokes it as
//
//   cmebench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir D]
//
// --trace 0 runs the workload untraced and prints every end-to-end metric.
// --trace 1 runs it twice — untraced, then with spans and layer probes — and
// prints every per-layer metric; the spans, layer self times and the metric
// tags go to D/<workload>-seed<N>.json. A completed run ends stdout with
// the result object {"correct", "attempted", "failed", "metrics"}; a run
// that throws prints no result and exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "obs/perf_counters.hpp"

namespace {

using namespace perfbench;

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;  ///< end-to-end metric @ workload it should move
};

// Every per-layer metric the traced run can report. A workload that never
// enters a layer reports its metrics as 0 and marks them not exercised in
// the trace file.
constexpr LayerMetric kLayerMetrics[] = {
    {"core.enumerate_s", "s", "setup_s@landscape"},
    {"core.states", "count", "setup_s@landscape"},
    {"core.stencil_compile_s", "s", "setup_s@landscape,sweep"},
    {"core.box_rows", "count", "solve_s@landscape"},
    {"core.box_active_frac", "fraction", "solve_s@landscape"},
    {"solver.sweep_s", "s", "solve_s@landscape"},
    {"solver.sweep_bytes", "B", "solve_s@landscape"},
    {"solver.sweep_bw_frac", "fraction", "solve_s@landscape"},
    {"solver.jacobi_iterations", "count", "solve_s@landscape"},
    {"solver.jacobi_checks", "count", "solve_s@landscape"},
    {"solver.jacobi_control_share", "fraction", "solve_s@landscape"},
    {"solver.batched_sweep_s", "s", "solve_s@sweep"},
    {"solver.batched_sweep_bytes", "B", "solve_s@sweep"},
    {"solver.batched_sweep_bw_frac", "fraction", "solve_s@sweep"},
    {"solver.ensemble_unit_cache_s", "s", "setup_s@sweep"},
    {"solver.ensemble_iterations", "count", "solve_s@sweep"},
    {"solver.ensemble_jacobi_frac", "fraction", "solve_s@sweep"},
    {"solver.ensemble_gmres_rescues", "count", "solve_s@sweep"},
    {"solver.ensemble_parity_mismatches", "count", "error_rate@sweep"},
    {"solver.transient_matvecs", "count", "solve_s@transient"},
    {"solver.transient_matvec_s", "s", "solve_s@transient"},
    {"fsp.rounds", "count", "solve_s@transient"},
    {"fsp.states", "count", "solve_s@transient"},
    {"fsp.overhead_share", "fraction", "solve_s@transient"},
    {"sparse.csr_spmv_s", "s", "latency_p95_ms,throughput_rps@serve"},
    {"verify.parse_us", "us", "latency_p50_ms@serve"},
    {"serve.admit_us.p50", "us", "latency_p50_ms@serve"},
    {"serve.queue_ms.p95", "ms", "latency_p95_ms@serve"},
    {"serve.solve_ms.hit.p50", "ms", "latency_p50_ms@serve"},
    {"serve.solve_ms.warm.p50", "ms", "latency_p95_ms,throughput_rps@serve"},
    {"serve.solve_ms.cold.p50", "ms", "latency_p95_ms,throughput_rps@serve"},
    {"serve.hit_frac", "fraction", "latency_p95_ms,throughput_rps@serve"},
    {"serve.warm_frac", "fraction", "latency_p95_ms,throughput_rps@serve"},
    {"serve.warm_iter_ratio.toggle-25", "ratio",
     "latency_p95_ms,throughput_rps@serve"},
    {"serve.shed", "count", "error_rate@serve"},
    {"serve.failed", "count", "error_rate@serve"},
    {"serve.invalid", "count", "error_rate@serve"},
    {"util.triad_gbps", "GB/s", "base of every bw_frac"},
    {"process.threads_peak", "count", "latency_p95_ms@serve"},
    {"obs.trace_overhead_frac", "fraction", "must stay small@all"},
    {"error_rate", "fraction", "error_rate@all"},
};

using WorkloadFn = std::function<void(const Args&, Recorder&, Outcome&,
                                      double)>;

WorkloadFn find_workload(const std::string& name) {
  if (name == "landscape") return run_landscape;
  if (name == "sweep") return run_sweep;
  if (name == "serve") return run_serve;
  if (name == "transient") return run_transient;
  return nullptr;
}

int env_int(const char* key, int fallback) {
  const char* v = std::getenv(key);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string o = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) o += ", ";
    first = false;
    o += json_str(name) + ": {\"value\": " + num(metric.value) +
         ", \"unit\": " + json_str(metric.unit) + "}";
  }
  return o + "}";
}

void write_trace(const Args& args, const std::string& provenance,
                 const Recorder& plain, const Recorder& traced,
                 const std::map<std::string, Metric>& layers,
                 const Outcome& out, const std::string& perf_json) {
  std::filesystem::create_directories(args.trace_dir);
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  std::ofstream f(path);
  f << "{\n\"provenance\": " << provenance << ",\n";
  f << "\"end_to_end_untraced\": " << metrics_json(plain.e2e()) << ",\n";
  f << "\"end_to_end_traced\": " << metrics_json(traced.e2e()) << ",\n";
  f << "\"perf_counters\": " << perf_json << ",\n";
  f << "\"failures\": [";
  for (std::size_t i = 0; i < out.notes.size(); ++i) {
    f << (i ? ", " : "") << json_str(out.notes[i]);
  }
  f << "],\n\"per_layer\": [\n";
  bool first = true;
  for (const auto& [name, m] : layers) {
    f << (first ? "" : ",\n") << "  {\"name\": " << json_str(name)
      << ", \"value\": " << num(m.value) << ", \"unit\": " << json_str(m.unit)
      << ", \"moves\": " << json_str(m.moves)
      << ", \"exercised\": " << (m.exercised ? "true" : "false") << "}";
    first = false;
  }
  f << "\n],\n\"layer_self_seconds\": {";
  first = true;
  for (const auto& [layer, s] : traced.self_seconds()) {
    f << (first ? "" : ", ") << json_str(layer) << ": " << num(s);
    first = false;
  }
  f << "},\n\"spans\": [\n";
  const auto spans = traced.spans();
  const double base = spans.empty() ? 0.0 : spans.front().t0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    f << (i ? ",\n" : "") << "  {\"id\": " << i
      << ", \"name\": " << json_str(s.name)
      << ", \"layer\": " << json_str(s.layer)
      << ", \"start_us\": " << num((s.t0 - base) * 1e6)
      << ", \"end_us\": " << num((s.t1 - base) * 1e6)
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request
      << "}";
  }
  f << "\n]\n}\n";
  std::cout << "# trace written to " << path << "\n";
}

int usage() {
  std::cerr << "usage: cmebench --workload landscape|serve|transient|sweep "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string trace_flag = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      trace_flag = v;
    } else if (a == "--trace-dir") {
      args.trace_dir = v;
    } else {
      return usage();
    }
  }
  const WorkloadFn run = find_workload(args.workload);
  if (!run || args.seconds <= 0 || (trace_flag != "0" && trace_flag != "1")) {
    return usage();
  }
  args.trace = trace_flag == "1";
  args.threads = env_int("CMESOLVE_THREADS", 0);
  args.omp_threads = env_int("OMP_NUM_THREADS", 0);

  const CacheInfo caches = cache_info();
  const std::string provenance = provenance_json(args, caches);
  std::cout << "# provenance " << provenance << std::endl;

  Outcome out;
  std::map<std::string, Metric> metrics;
  try {
    Recorder plain(false);
    run(args, plain, out, 0.0);
    if (!args.trace) {
      metrics = plain.e2e();
    } else {
      Recorder traced(true);
      const TriadResult triad = [&] {
        Recorder::Scope s(traced, "util.stream_triad", "util");
        return stream_triad(caches);
      }();
      std::string perf_json = "{\"available\": false}";
      int threads_peak = 0;
      {
        cmesolve::obs::PerfGroup perf;
        if (perf.available()) perf.start();
        ThreadSampler sampler;
        run(args, traced, out, triad.gbps);
        threads_peak = sampler.peak();
        if (perf.available()) {
          const auto s = perf.stop();
          perf_json = "{\"available\": true, \"thread\": \"main\", "
                      "\"cycles\": " + num(static_cast<double>(s.cycles)) +
                      ", \"instructions\": " +
                      num(static_cast<double>(s.instructions)) +
                      ", \"llc_miss_bytes\": " +
                      num(static_cast<double>(s.dram_bytes())) + "}";
        }
      }
      std::map<std::string, double> values = traced.layers();
      values["util.triad_gbps"] = triad.gbps;
      values["process.threads_peak"] = threads_peak;
      const double plain_t = plain.e2e().at("solve_s").value;
      values["obs.trace_overhead_frac"] =
          (traced.e2e().at("solve_s").value - plain_t) / plain_t;
      values["error_rate"] = static_cast<double>(out.failed) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 out.attempted, 1));
      for (const LayerMetric& lm : kLayerMetrics) {
        const auto it = values.find(lm.name);
        metrics[lm.name] = Metric{it == values.end() ? 0.0 : it->second,
                                  lm.unit, lm.moves, it != values.end()};
        if (it != values.end()) values.erase(it);
      }
      if (!values.empty()) {
        throw std::logic_error("per-layer metric missing from the table: " +
                               values.begin()->first);
      }
      std::cout << "# triad arrays " << (triad.array_bytes >> 20)
                << " MiB each, LLC " << (caches.llc_bytes >> 20) << " MiB\n";
      write_trace(args, provenance, plain, traced, metrics, out, perf_json);
    }
  } catch (const std::exception& e) {
    std::cerr << "cmebench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  for (const std::string& note : out.notes) {
    std::cout << "# failure: " << note << "\n";
  }
  const bool correct = out.failed == 0 && out.selfcheck_ok;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}
